"""Command-line interface.

Subcommands: report, theta, support, equations, separate, demo. Exit codes:
0 on a completed analysis, 2 on parse/validation errors, 3 on solver
breakdown.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import fixtures
from .analysis import (
    AnalysisOptions,
    EmptyCutSetError,
    SupportHandle,
    branch_tables,
    check_A0,
    dmu_vertices_2d,
    enumerate_valid_equations,
    full_reports,
    thetas,
)
from .model import (
    Problem,
    ProblemFormatError,
    Status,
    assumption2_check,
    load_problem,
    _plain,
)
from .separation import branches_from_set, generate_cut
from .solver import SolverOptions

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_SOLVER = 3


def _options(args) -> AnalysisOptions:
    """The analysis options of the subcommand's flags; a flag that the
    subcommand does not take keeps its AnalysisOptions default."""
    flags = vars(args)
    for flag, v in (("--tol", flags.get("tol")), ("--feas-tol", args.feas_tol),
                    ("--gap-tol", args.gap_tol)):
        if v is not None and not (math.isfinite(v) and v > 0):
            raise ProblemFormatError(f"{flag} must be finite and positive, got {v}")
    if flags.get("samples", 1) < 1:
        raise ProblemFormatError("--samples must be at least 1")
    if args.max_iters < 1:
        raise ProblemFormatError("--max-iters must be at least 1")
    return AnalysisOptions(
        **{k: flags[k] for k in ("tol", "samples") if k in flags},
        solver=SolverOptions(
            feas_tol=args.feas_tol,
            gap_tol=args.gap_tol,
            max_iters=args.max_iters,
        ),
    )


def _load(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    return load_problem(text)


def _select_inequalities(problem: Problem, selector: str | None):
    if selector is None:
        if not problem.inequalities:
            raise ProblemFormatError("problem file carries no inequalities")
        return list(problem.inequalities)
    for q in problem.inequalities:
        if q.name == selector:
            return [q]
    raise ProblemFormatError(f"no inequality named {selector!r} in the problem file")


def _emit(doc, as_json: bool):
    if as_json:
        print(json.dumps(_plain(doc), indent=2))
    else:
        _emit_text(doc)


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.9g}"
    if isinstance(v, np.ndarray):
        return "[" + ", ".join(_fmt(float(x)) for x in v.ravel()) + "]"
    return str(v)


def _emit_text(doc, indent: int = 0):
    pad = "  " * indent
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {_fmt(v) if not isinstance(v, (dict, list)) else v}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
            else:
                print(f"{pad}- {_fmt(v)}")
    else:
        print(f"{pad}{_fmt(doc)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_report(args) -> int:
    opts = _options(args)
    problem = _load(args.problem)
    ineqs = _select_inequalities(problem, args.inequality)
    out = []
    for q, rep in zip(ineqs, full_reports(problem.dset, ineqs, opts)):
        out.append({"inequality": q.name, **rep.to_dict()})
        if not args.json:
            print(f"== {q.name or '(unnamed)'} ==")
            for e in rep.entries:
                vals = ", ".join(
                    f"{k}={_fmt(v)}" for k, v in e.values.items()
                    if not isinstance(v, (dict, list))
                )
                print(f"  {e.name:28s} {e.status.value:14s} {vals}")
            print(f"  final verdict: {rep.final_verdict}")
    if args.json:
        _emit(out, True)
    return EXIT_OK


def cmd_theta(args) -> int:
    opts = _options(args)
    problem = _load(args.problem)
    ineqs = _select_inequalities(problem, args.inequality)
    out = [
        {
            "inequality": q.name,
            "theta": th.value,
            "argmin": th.argmin,
            "branches": {
                r.label: (r.value if r.value is not None else r.status) for r in th.table
            },
        }
        for q, th in zip(ineqs, thetas(problem.dset, [q.mu for q in ineqs], opts))
    ]
    _emit(out, args.json)
    return EXIT_OK


def cmd_support(args) -> int:
    opts = _options(args)
    problem = _load(args.problem)
    ineqs = _select_inequalities(problem, args.inequality)
    out = []
    if args.z is not None:
        z = _parse_vector(args.z, problem.dset.m, "--z")
        handles = [SupportHandle(problem.dset, q.mu, opts) for q in ineqs]
        branch_tables(handles, [], z[None])  # files z for every handle in one batch
        out = [{"inequality": q.name, "z": z, "sigma": h.eval(z)} for q, h in zip(ineqs, handles)]
    else:
        # sigma(b) >= y.b from each branch's dual, +inf on infeasible ones
        for q, th in zip(ineqs, thetas(problem.dset, [q.mu for q in ineqs], opts)):
            if check_A0(th.handle, th)[0] is Status.FAILS:
                raise EmptyCutSetError("D_mu is empty; condition (A.0) fails")
            out.append(
                {
                    "inequality": q.name,
                    "inf_sigma": th.inf_sigma,
                    "argmin": th.sigma_argmin,
                    "monotone_ok": th.monotone_ok,
                    "table": {r.label: r.sigma for r in th.table},
                }
            )
    _emit(out, args.json)
    return EXIT_OK


def cmd_equations(args) -> int:
    problem = _load(args.problem)
    eqs = enumerate_valid_equations(problem.dset)
    _emit([{"name": q.name, "mu": q.mu, "eta0": q.eta0} for q in eqs], args.json)
    return EXIT_OK


def cmd_separate(args) -> int:
    opts = _options(args)
    problem = _load(args.problem)
    xhat = _parse_vector(args.point, problem.dset.n, "--point")
    res = generate_cut(
        branches_from_set(problem.dset),
        xhat,
        tol=opts.tol,
        solver=opts.solver,
    )
    doc = {"found": res.found, "diagnostic": res.diagnostic}
    if res.found:
        doc.update(
            {
                "mu": res.inequality.mu,
                "eta0": res.inequality.eta0,
                "violation": res.violation,
                "verified": res.verified,
            }
        )
    _emit(doc, args.json)
    return EXIT_OK


def cmd_demo(args) -> int:
    opts = _options(args)
    params = {}
    if args.name == "cmir":
        params = {"f": args.f, "M": args.M}
    elif args.name == "ex4_3":
        params = {"M": args.M}
    fx = fixtures.builtin(args.name, **params)
    checks = []

    def check(label, ok, detail=""):
        checks.append({"check": label, "pass": bool(ok), "detail": detail})

    reps = full_reports(fx.dset, [fi.inequality for fi in fx.inequalities], opts)
    expected_a2 = fx.notes.get("assumption2")
    if expected_a2 is not None:
        a2_status, _, a2_margin = assumption2_check(fx.dset, opts.solver)
        check(f"assumption2 {expected_a2}", a2_status.value == expected_a2,
              f"margin={_fmt(a2_margin)}")
    if "infeasible_rhs" in fx.notes:
        # the branch table of the first report, whose validity rung lists
        # every branch by label
        rhs = dict(fx.dset.B.expand_labeled())
        branches = reps[0].entry("validity").values["branches"]
        bad = [float(rhs[label][0]) for label, v in branches.items() if v == "infeasible"]
        check("infeasible rhs detected", bad == fx.notes["infeasible_rhs"],
              f"found {bad}")
    for fi, rep in zip(fx.inequalities, reps):
        if fi.expected_verdict is not None:
            check(
                f"{fi.inequality.name} verdict {fi.expected_verdict}",
                rep.final_verdict == fi.expected_verdict,
                f"got {rep.final_verdict}",
            )
        for key, rung in (("theta", "validity"), ("inf_sigma", "inf_sigma")):
            if key in fi.scalars:
                got = _report_value(rep, rung, key)
                check(
                    f"{fi.inequality.name} {key}",
                    abs(got - fi.scalars[key]) <= opts.tol,
                    f"got {_fmt(got)}",
                )
    if fx.notes.get("dmu_vertices"):
        verts = dmu_vertices_2d(fx.dset, fx.inequalities[0].inequality.mu, opts)
        want = sorted(tuple(v) for v in fx.notes["dmu_vertices"])
        got = sorted(tuple(np.round(v, 6)) for v in verts)
        ok = len(want) == len(got) and all(
            max(abs(a - b) for a, b in zip(w, g)) <= 1e-6 for w, g in zip(want, got)
        )
        check("dmu vertices", ok,
              "got " + ", ".join("(" + ", ".join(map(_fmt, v)) + ")" for v in got))

    all_pass = all(c["pass"] for c in checks)
    if args.json:
        _emit({"fixture": fx.name, "checks": checks, "all_pass": all_pass}, True)
    else:
        for c in checks:
            line = "PASS" if c["pass"] else "FAIL"
            detail = f"  ({c['detail']})" if c["detail"] else ""
            print(f"{line}  {c['check']}{detail}")
    return EXIT_OK if all_pass else EXIT_SOLVER


def _report_value(rep, rung: str, key: str) -> float:
    """A scalar the report recorded, nan when the ladder stopped before it."""
    entry = rep.entry(rung)
    return entry.values.get(key, math.nan) if entry is not None else math.nan


def _parse_vector(text: str, n: int, flag: str) -> np.ndarray:
    try:
        v = np.array([float(t) for t in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ProblemFormatError(f"{flag}: {exc}") from exc
    if v.size != n:
        raise ProblemFormatError(f"{flag}: expected {n} numbers, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ProblemFormatError(f"{flag}: every coordinate must be finite, got {text!r}")
    return v


# ---------------------------------------------------------------------------
# parser

_DEFAULTS = AnalysisOptions()


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--max-iters", type=int, default=_DEFAULTS.solver.max_iters)
    p.add_argument("--feas-tol", type=float, default=_DEFAULTS.solver.feas_tol)
    p.add_argument("--gap-tol", type=float, default=_DEFAULTS.solver.gap_tol)


def _add_ladder_flags(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=float, default=_DEFAULTS.tol)
    p.add_argument("--samples", type=int, default=_DEFAULTS.samples)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="conecert",
        description="Certify validity, tightness, sublinearity and minimality "
        "of linear inequalities over disjunctive conic sets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="run the full certificate ladder")
    p.add_argument("problem")
    p.add_argument("--inequality", default=None, help="restrict to one named inequality")
    _add_solver_flags(p)
    _add_ladder_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("theta", help="best right-hand side per inequality")
    p.add_argument("problem")
    p.add_argument("--inequality", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("support", help="support-function values over the rhs family")
    p.add_argument("problem")
    p.add_argument("--inequality", default=None)
    p.add_argument("--z", default=None, help="evaluate at this direction instead")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("equations", help="enumerate valid equations")
    p.add_argument("problem")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_equations)

    p = sub.add_parser("separate", help="generate a violated inequality for a point")
    p.add_argument("problem")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--tol", type=float, default=_DEFAULTS.tol)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("demo", help="run a built-in example against its known facts")
    p.add_argument("name", choices=fixtures.names())
    p.add_argument("--f", type=float, default=0.25)
    p.add_argument("--M", type=int, default=None)
    _add_solver_flags(p)
    _add_ladder_flags(p)
    p.set_defaults(func=cmd_demo)

    return ap


def main(argv=None) -> int:
    # argparse takes a vector value such as -1,0 for an option, so join it to
    # its flag as --point=-1,0; a following --option stays an option
    joined = []
    for a in sys.argv[1:] if argv is None else argv:
        if (joined and joined[-1] in ("--point", "--z") and a.startswith("-")
                and not a.startswith("--")):
            joined[-1] += "=" + a
        else:
            joined.append(a)
    args = build_parser().parse_args(joined)
    if getattr(args, "command", None) == "demo" and args.M is None:
        args.M = 10 if args.name == "cmir" else 5
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError subclass: caught first
        print(f"solver breakdown: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:  # ProblemFormatError, ModelError and EmptyCutSetError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
