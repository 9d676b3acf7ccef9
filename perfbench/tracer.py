"""Out-of-package tracing of conecert.

`Tracer.install` rebinds the public functions of the layer modules (and the
`SupportHandle` methods) with wrappers that record one span per call. A name
imported with ``from .x import f`` is a second binding of the same function,
so every module of the package is scanned and each binding of a wrapped
function is replaced; patching ``conecert.solver.solve`` alone would miss
the calls made from analysis, model and separation. `uninstall` restores
every binding.

Spans are kept in memory as ``[name, parent, op, t0, t1, info]`` (``info``
holds the program shape and outcome of a solve) and summarized after the run.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter, defaultdict

PACKAGE = "conecert"
LAYERS = ("solver", "analysis", "model", "separation", "cli")
# Leaf helpers are not wrapped: their time shows as self time of the caller.
HELPERS = ("cones", "linalg", "fixtures")
METHODS = {"analysis": {"SupportHandle": ("eval", "feasibility")}}

# Solves on programs with more columns than this count as "large".
SMALL_COLS = 32

RUNGS = {
    "theta": "analysis.theta",
    "check_A0": "analysis.check_A0",
    "sigma_over_rhs": "analysis.sigma_over_rhs",
    "support_eval": "analysis.SupportHandle.eval",
    "tight_extreme_ray_search": "analysis.tight_extreme_ray_search",
    "check_A1i": "analysis.check_A1i",
    "check_sublinear_sufficient": "analysis.check_sublinear_sufficient",
    "check_minimal_sufficient": "analysis.check_minimal_sufficient",
    "decide_minimal_exact": "analysis.decide_minimal_exact",
    "valid_equation_check": "analysis.valid_equation_check",
}
STATUSES = {
    "Optimal": "optimal",
    "PrimalInfeasible": "primal_infeasible",
    "DualInfeasible": "dual_infeasible",
    "NumericalLimit": "numerical_limit",
}
NAME, PARENT, OP, T0, T1, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, self.op,
               time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        rec[T1] = time.perf_counter()

    def run_op(self, op_index: int, name: str, fn):
        """Run one benchmark op under a root span."""
        self.op = op_index
        rec = self._open(name)
        try:
            return fn()
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        is_solve = name == "solver.solve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if is_solve:
                    p = args[0] if args else kwargs["p"]
                    rec[INFO] = (p.A.shape[0], p.A.shape[1], p.cone.blocks,
                                 out.status.value, out.iterations)
                return out
            finally:
                self._close(rec)

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS + HELPERS]
        mods.append(importlib.import_module(PACKAGE))
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for owner in mods:
                    for alias, val in list(vars(owner).items()):
                        if val is obj:
                            self._patch(owner, alias, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}",
                                                      vars(cls)[meth]))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# summaries


def _cone_signature(blocks) -> str:
    """Run-length signature of the cone, e.g. ``F1+L3*4+N1``."""
    parts = []
    for blk in blocks:
        tag = f"{blk.kind.value[0].upper()}{blk.dim}"
        if parts and parts[-1][0] == tag:
            parts[-1][1] += 1
        else:
            parts.append([tag, 1])
    return "+".join(t if k == 1 else f"{t}*{k}" for t, k in parts)


def summarize(spans: list[list], passes: int, ops: int) -> tuple[dict, dict]:
    """Per-module metrics and the solve traffic profile of the traced passes.

    Counts and milliseconds named ``<layer>.<fn>.{calls,solves,ms,self_ms}``
    are per pass; ``solves`` counts every solve under the span (inclusive,
    like ``ms``); ``self_ms`` is ``ms`` minus the time of child spans.
    """
    dur = [s[T1] - s[T0] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    calls, ms, self_ms, solves_under = Counter(), Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        ms[s[NAME]] += dur[i]
        self_ms[s[NAME]] += dur[i] - child[i]

    status = Counter()
    size = {"small": Counter(), "large": Counter()}
    by_shape, by_rung = defaultdict(Counter), defaultdict(Counter)
    solve_s = 0.0
    for i, s in enumerate(spans):
        if s[NAME] != "solver.solve" or s[INFO] is None:  # None: the solve raised
            continue
        rows, cols, blocks, st, iters = s[INFO]
        solve_s += dur[i]
        status[STATUSES[st]] += 1
        cls = size["small" if cols <= SMALL_COLS else "large"]
        cls["solves"] += 1
        cls["iters"] += iters
        cls["s"] += dur[i]
        # every distinct ancestor gets the solve; the nearest one is its rung
        seen, rung, j = set(), None, s[PARENT]
        while j >= 0:
            name = spans[j][NAME]
            if rung is None and not name.startswith("solver."):
                rung = name
            seen.add(name)
            j = spans[j][PARENT]
        for name in seen:
            solves_under[name] += 1
        for key, table in ((f"{rows}x{cols} {_cone_signature(blocks)}", by_shape),
                           (rung, by_rung)):
            table[key]["solves"] += 1
            table[key]["iters"] += iters
            table[key]["ms"] += 1e3 * dur[i]

    op_s = sum(dur[i] for i, s in enumerate(spans) if s[PARENT] < 0)
    n_solves = size["small"]["solves"] + size["large"]["solves"]
    n_iters = size["small"]["iters"] + size["large"]["iters"]
    per_pass = 1.0 / passes

    m = {
        "solver.solves_per_op": n_solves / ops,
        "solver.iters_per_solve": n_iters / max(n_solves, 1),
        "solver.ms_per_solve": 1e3 * solve_s / max(n_solves, 1),
        "solver.busy_frac": solve_s / op_s,
    }
    for cls in ("small", "large"):
        c = size[cls]
        m[f"solver.{cls}.ms_per_iter"] = 1e3 * c["s"] / max(c["iters"], 1)
        m[f"solver.{cls}.solves"] = c["solves"] * per_pass
    for st in STATUSES.values():
        m[f"solver.status.{st}"] = status[st] * per_pass
    for rung, name in RUNGS.items():
        m[f"analysis.{rung}.calls"] = calls[name] * per_pass
        m[f"analysis.{rung}.solves"] = solves_under[name] * per_pass
        m[f"analysis.{rung}.ms"] = 1e3 * ms[name] * per_pass
        m[f"analysis.{rung}.self_ms"] = 1e3 * self_ms[name] * per_pass
    ev = RUNGS["support_eval"]
    m["analysis.support_eval.cache_hit_frac"] = (
        (calls[ev] - solves_under[ev]) / calls[ev] if calls[ev] else 0.0)
    for fn in ("feasible_rhs", "assumption2_check"):
        name = f"model.{fn}"
        m[f"{name}.calls"] = calls[name] * per_pass
        m[f"{name}.solves"] = solves_under[name] * per_pass
        m[f"{name}.ms"] = 1e3 * ms[name] * per_pass
    m["model.load_problem.ms"] = 1e3 * ms["model.load_problem"] * per_pass
    report_in_cli = sum(dur[i] for i, s in enumerate(spans)
                        if s[NAME] == "analysis.full_report" and s[PARENT] >= 0
                        and _has_ancestor(spans, i, "cli.main"))
    m["cli.overhead_ms_per_op"] = 1e3 * (ms["cli.main"] - report_in_cli) / ops
    m["separation.generate_cut.solves"] = solves_under["separation.generate_cut"] * per_pass
    m["separation.generate_cut.ms"] = 1e3 * ms["separation.generate_cut"] * per_pass

    def table(rows: dict, key: str) -> list[dict]:
        out = [{key: k, "solves": v["solves"] * per_pass, "iters": v["iters"] * per_pass,
                "ms": v["ms"] * per_pass} for k, v in rows.items()]
        return sorted(out, key=lambda r: (-r["solves"], r[key]))

    traffic = {
        "per": "pass",
        "solves": n_solves * per_pass,
        "by_shape": table(by_shape, "shape"),
        "by_rung": table(by_rung, "rung"),
        "spans_by_name": {k: {"calls": calls[k] * per_pass, "ms": 1e3 * ms[k] * per_pass,
                              "self_ms": 1e3 * self_ms[k] * per_pass}
                          for k in sorted(calls)},
    }
    return m, traffic


def _has_ancestor(spans: list[list], i: int, name: str) -> bool:
    j = spans[i][PARENT]
    while j >= 0:
        if spans[j][NAME] == name:
            return True
        j = spans[j][PARENT]
    return False
