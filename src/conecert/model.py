"""Disjunctive conic sets, right-hand-side families, inequalities, reports,
and the JSON problem/report file formats (format_version 1)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cones import BlockKind, ConeBlock, ConeProduct

FORMAT_VERSION = 1

MARGIN_TOL = 1e-7  # the least margin that certifies a point interior to a cone


class ProblemFormatError(ValueError):
    """Raised on parse or validation failures; message names the field."""


class Status(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INCONCLUSIVE = "Inconclusive"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class Lattice:
    base: np.ndarray
    step: np.ndarray
    k_min: int
    k_max: int

    def __post_init__(self):
        object.__setattr__(self, "base", _finite(self.base, "base"))
        object.__setattr__(self, "step", _finite(self.step, "step"))
        if self.base.size != self.step.size:
            raise ProblemFormatError(
                f"rhs.lattice: base has {self.base.size} entries and step has {self.step.size}")


@dataclass(frozen=True)
class RhsFamily:
    explicit: tuple
    lattice: Lattice | None = None

    def __post_init__(self):
        object.__setattr__(self, "explicit", tuple(
            _finite(b, f"explicit[{i}]") for i, b in enumerate(self.explicit)))

    def expand_labeled(self) -> list[tuple[str, np.ndarray]]:
        """Deduplicated expansion with labels. Explicit entries come first in
        file order; lattice shifts follow as k = 0, 1, ..., then -1, -2, ...
        restricted to [k_min, k_max]."""
        out = []
        seen = set()

        def push(label, b):
            key = tuple(np.round(np.asarray(b, float), 12))
            if key not in seen:
                seen.add(key)
                out.append((label, np.asarray(b, dtype=float).ravel()))

        for i, b in enumerate(self.explicit):
            push(f"explicit[{i}]", b)
        if self.lattice is not None:
            lat = self.lattice
            ks = [k for k in range(0, lat.k_max + 1) if k >= lat.k_min]
            ks += [k for k in range(-1, lat.k_min - 1, -1) if k <= lat.k_max]
            for k in ks:
                push(f"lattice[{k}]", lat.base + k * lat.step)
        if not out:
            raise ProblemFormatError("rhs: expansion is empty")
        return out

    def expand(self) -> list[np.ndarray]:
        return [b for _, b in self.expand_labeled()]


@dataclass(frozen=True)
class DisjunctiveSet:
    A: np.ndarray
    K: ConeProduct
    B: RhsFamily

    def __post_init__(self):
        A = _finite(self.A, "A").reshape(np.shape(self.A))
        object.__setattr__(self, "A", np.atleast_2d(A))
        if not self.K.is_regular():
            raise ProblemFormatError("cone: must be regular (Nonneg/Lorentz blocks only)")
        m, n = self.A.shape
        if self.K.dim != n:
            raise ProblemFormatError(f"cone: dim {self.K.dim} != A cols {n}")
        for label, b in self.B.expand_labeled():
            if b.size != m:
                raise ProblemFormatError(f"rhs.{label}: length {b.size} != A rows {m}")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def is_orthant(self) -> bool:
        return all(blk.kind is BlockKind.NONNEG for blk in self.K.blocks)


@dataclass(frozen=True)
class Inequality:
    mu: np.ndarray
    eta0: float
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "mu", _finite(self.mu, "mu"))
        eta0 = _finite(self.eta0, "eta0")
        if eta0.size != 1:
            raise ProblemFormatError("eta0: expected one number")
        object.__setattr__(self, "eta0", float(eta0[0]))


@dataclass
class CheckEntry:
    name: str
    status: Status
    values: dict = field(default_factory=dict)
    witness: dict = field(default_factory=dict)


@dataclass
class CertificateReport:
    entries: list = field(default_factory=list)
    final_verdict: str = ""
    config: dict = field(default_factory=dict)

    def entry(self, name: str) -> CheckEntry | None:
        for e in self.entries:
            if e.name == name:
                return e
        return None

    def add(self, name, status, values=None, witness=None) -> CheckEntry:
        e = CheckEntry(name, status, values or {}, witness or {})
        self.entries.append(e)
        return e

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "final_verdict": self.final_verdict,
            "config": _plain(self.config),
            "checks": [
                {
                    "name": e.name,
                    "status": e.status.value,
                    "values": _plain(e.values),
                    "witness": _plain(e.witness),
                }
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def _plain(v):
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_number(f) for f in v.astype(float).ravel().tolist()]
    if isinstance(v, (np.floating, float)):
        return _number(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, Status):
        return v.value
    return v


def _number(f: float):
    """f, or its name for a non-finite f, which JSON has no number for."""
    if math.isfinite(f):
        return f
    return "nan" if math.isnan(f) else ("inf" if f > 0 else "-inf")


# ---------------------------------------------------------------------------
# problem files

@dataclass(frozen=True)
class Problem:
    dset: DisjunctiveSet
    inequalities: tuple


def load_problem(text: str) -> Problem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("top level: expected an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ProblemFormatError(
            f"format_version: expected {FORMAT_VERSION}, got {doc.get('format_version')!r}"
        )
    try:
        rows, cols = doc["A"]["shape"]
        entries = doc["A"]["entries"]
        size = len(entries)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError("A: needs a two-entry 'shape' and row-major 'entries'") from exc
    m, n = _integer(rows, "A.shape"), _integer(cols, "A.shape")
    if m < 0 or n < 0:
        raise ProblemFormatError(f"A.shape: expected nonnegative entries, got {[m, n]}")
    if size != m * n:
        raise ProblemFormatError(f"A.entries: expected {m * n} values, got {size}")
    A = _finite(entries, "A.entries").reshape(m, n)

    if not isinstance(doc.get("cone", []), list):
        raise ProblemFormatError("cone: expected a list of blocks")
    blocks = []
    for i, blk in enumerate(doc.get("cone", [])):
        kind = blk.get("kind") if isinstance(blk, dict) else None
        try:
            kind = BlockKind(kind)
        except ValueError:
            raise ProblemFormatError(f"cone[{i}].kind: unknown kind {kind!r}") from None
        dim = _integer(blk.get("dim"), f"cone[{i}].dim")
        try:
            blocks.append(ConeBlock(kind, dim))
        except ValueError as exc:
            raise ProblemFormatError(f"cone[{i}]: {exc}") from exc
    if not blocks:
        raise ProblemFormatError("cone: at least one block required")
    K = ConeProduct(blocks)

    rhs = doc.get("rhs")
    if not isinstance(rhs, dict):
        raise ProblemFormatError("rhs: expected an object")
    if not isinstance(rhs.get("explicit", []), list):
        raise ProblemFormatError("rhs.explicit: expected a list of right-hand sides")
    explicit = tuple(_finite(b, f"rhs.explicit[{i}]")
                     for i, b in enumerate(rhs.get("explicit", [])))
    lattice = None
    if rhs.get("lattice") is not None:
        lat = rhs["lattice"]
        try:
            lattice = Lattice(
                base=_finite(lat["base"], "rhs.lattice.base"),
                step=_finite(lat["step"], "rhs.lattice.step"),
                k_min=_integer(lat["kmin"], "rhs.lattice.kmin"),
                k_max=_integer(lat["kmax"], "rhs.lattice.kmax"),
            )
        except (KeyError, TypeError) as exc:
            raise ProblemFormatError(f"rhs.lattice: {exc}") from exc
        if lattice.k_min > lattice.k_max:
            raise ProblemFormatError("rhs.lattice: kmin > kmax")
    B = RhsFamily(explicit, lattice)

    dset = DisjunctiveSet(A, K, B)
    if not isinstance(doc.get("inequalities", []), list):
        raise ProblemFormatError("inequalities: expected a list of inequalities")
    ineqs = []
    for i, item in enumerate(doc.get("inequalities", [])):
        if not isinstance(item, dict) or "mu" not in item or "eta0" not in item:
            raise ProblemFormatError(f"inequalities[{i}]: needs 'mu' and 'eta0'")
        mu = _finite(item["mu"], f"inequalities[{i}].mu")
        eta0 = _finite(item["eta0"], f"inequalities[{i}].eta0")
        if mu.size != n:
            raise ProblemFormatError(
                f"inequalities[{i}].mu: length {mu.size} != {n}"
            )
        if eta0.size != 1:
            raise ProblemFormatError(f"inequalities[{i}].eta0: expected one number")
        ineqs.append(Inequality(mu, eta0[0], str(item.get("name", f"ineq{i}"))))
    return Problem(dset, tuple(ineqs))


def _finite(v, name: str) -> np.ndarray:
    """The numbers of a JSON value or an array as a flat float array; raises
    a ProblemFormatError naming the field unless they are all finite."""
    try:
        arr = np.asarray(v, dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{name}: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ProblemFormatError(f"{name}: entries must be finite numbers")
    return arr


def _integer(v, name: str) -> int:
    """A JSON integer (an integral float such as 3.0 too), never truncated."""
    if isinstance(v, bool) or not (isinstance(v, int) or (isinstance(v, float) and v.is_integer())):
        raise ProblemFormatError(f"{name}: expected an integer, got {v!r}")
    return int(v)


def save_problem(problem: Problem) -> str:
    dset = problem.dset
    doc = {
        "format_version": FORMAT_VERSION,
        "A": {
            "shape": [dset.m, dset.n],
            "entries": [float(v) for v in dset.A.ravel()],
        },
        "cone": [
            {"kind": blk.kind.value, "dim": blk.dim} for blk in dset.K.blocks
        ],
        "rhs": {
            "explicit": [[float(v) for v in b] for b in dset.B.explicit],
        },
        "inequalities": [
            {"name": q.name, "mu": [float(v) for v in q.mu], "eta0": float(q.eta0)}
            for q in problem.inequalities
        ],
    }
    if dset.B.lattice is not None:
        lat = dset.B.lattice
        doc["rhs"]["lattice"] = {
            "base": [float(v) for v in lat.base],
            "step": [float(v) for v in lat.step],
            "kmin": lat.k_min,
            "kmax": lat.k_max,
        }
    return json.dumps(doc, indent=2, allow_nan=False)
