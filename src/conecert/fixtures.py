"""Built-in example corpus: small disjunctive conic sets with known facts.

Each fixture bundles a set, one or more inequalities, the verdict the full
report is expected to reach, and closed-form scalars used by the regression
tests. The six fixed examples are read from the problem files shipped under
``conecert/data/``; what a problem file cannot hold (each inequality's
expected verdict and scalars, and the set's notes) is in ``_FACTS``. The two
parameterized families, ``cmir(f, M)`` and ``ex4_3(M)``, are built in code,
and at their defaults they are ``cmir.json`` and ``ex4_3.json``.
"""

from __future__ import annotations

import copy
import inspect
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .cones import ConeProduct, lorentz, nonneg
from .model import DisjunctiveSet, Inequality, Lattice, Problem, RhsFamily, load_problem


@dataclass(frozen=True)
class FixtureInequality:
    inequality: Inequality
    expected_verdict: str | None
    scalars: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Fixture:
    name: str
    dset: DisjunctiveSet
    inequalities: tuple
    notes: dict = field(default_factory=dict)

    def to_problem(self) -> Problem:
        return Problem(self.dset, tuple(fi.inequality for fi in self.inequalities))


# Per fixed fixture: (expected verdict, scalars) of each inequality, by its
# name and in its order in the problem file, and the set's notes.
_SQRT3, _R2 = math.sqrt(3.0), 1.0 / math.sqrt(2.0)
_FACTS = {
    "ex2_1": ({"x1-x3>=-2": ("CertifiedMinimal", {"theta": -2.0})}, {}),
    "ex2_2": ({"x1-x3>=0": ("SublinearInconclusiveMinimality", {"theta": 0.0})},
              {"assumption2": "Fails"}),
    "ex2_4": ({"x1-x2>=-2": ("CertifiedMinimal", {"theta": -1.0}),
               "x1>=0": ("CertifiedNotMinimal", {"theta": 0.0})}, {}),
    "ex2_4_r25": ({"x1-x2>=1/2": ("CertifiedMinimal", {"theta": 1.0})}, {}),
    # nu and the minimal cuts mu_t = (0, t, sqrt(t^2 + 1)) of Example 4.1
    "ex4_1": ({"nu": ("CertifiedNotMinimal", {"inf_sigma": _SQRT3, "support_at_pm1": _SQRT3}),
               **{f"mu_t{t}": ("CertifiedMinimal", {"support_at_pm1": 1.0})
                  for t in (0, 1, -2)}}, {}),
    "ex4_2": ({"x3>=1/2": ("Inconclusive", {"theta": 0.5})},
              {"infeasible_rhs": [-1.0], "tight_ray": [0.0, _R2, _R2]}),
}


def _from_file(name: str) -> Fixture:
    facts, notes = copy.deepcopy(_FACTS[name])
    text = (resources.files(__package__) / "data" / f"{name}.json").read_text(encoding="utf-8")
    problem = load_problem(text)
    named = [q.name for q in problem.inequalities]
    if named != list(facts):
        raise ValueError(
            f"fixture {name}: the table names the inequalities {list(facts)}, "
            f"{name}.json names {named}"
        )
    items = tuple(FixtureInequality(q, *facts[q.name]) for q in problem.inequalities)
    return Fixture(name, problem.dset, items, notes)


def _ex4_3(M: int = 5) -> Fixture:
    if M < 1:
        raise ValueError("truncation M must be at least 1")
    dset = DisjunctiveSet(
        np.eye(2),
        ConeProduct([nonneg(2)]),
        RhsFamily(
            explicit=(np.array([0.0, 1.0]),),
            lattice=Lattice(np.array([0.0, -1.0]), np.array([1.0, 0.0]), -M, M),
        ),
    )
    ineq = Inequality(np.array([-1.0, 1.0]), 1.0, "-x1+x2>=1")
    return Fixture(
        "ex4_3",
        dset,
        (FixtureInequality(ineq, "CertifiedNotMinimal", {"theta": 1.0}),),
    )


def _cmir(f: float = 0.25, M: int = 10) -> Fixture:
    if not 0.0 < f < 1.0:
        raise ValueError("f must lie strictly between 0 and 1")
    if M < 2:
        raise ValueError("truncation M must be at least 2")
    A = np.array(
        [
            [1.0, -1.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, -1.0],
        ]
    )
    dset = DisjunctiveSet(
        A,
        ConeProduct([nonneg(3), lorentz(2)]),
        RhsFamily(
            explicit=(),
            lattice=Lattice(np.array([f, 0.0]), np.array([1.0, 0.0]), -M, M),
        ),
    )
    eta0 = f * (2.0 - 2.0 * f)
    cut = Inequality(
        np.array([2.0 - 2.0 * f, 2.0 * f, 1.0, 2.0 * f - 1.0, 0.0]), eta0, "cmir_cut"
    )
    equation = Inequality(np.array([0.0, 0.0, 1.0, 0.0, -1.0]), 0.0, "t_eq_gamma2")
    return Fixture(
        "cmir",
        dset,
        (
            FixtureInequality(cut, "CertifiedMinimal", {"theta": eta0, "inf_sigma": eta0}),
            FixtureInequality(equation, None, {"theta": 0.0}),
        ),
        notes={
            "f": f,
            "M": M,
            "dmu_vertices": [[-0.5, 1.0], [1.5, 1.0], [0.5, 0.0]] if f == 0.25 else None,
            "inf_sigma_argmin": "lattice[0]",
        },
    )


_FAMILIES = {"ex4_3": _ex4_3, "cmir": _cmir}


def names() -> list[str]:
    return sorted([*_FACTS, *_FAMILIES])


def builtin(name: str, **params) -> Fixture:
    """The fixture `name`; only the families take parameters (cmir: f and
    M, ex4_3: M), and a parameter the fixture does not take is an error."""
    if name not in names():
        raise ValueError(f"unknown fixture {name!r}; choose from {names()}")
    builder = _FAMILIES.get(name)
    extra = sorted(set(params) - set(inspect.signature(builder).parameters if builder else ()))
    if extra:
        raise ValueError(f"fixture {name} takes no parameter {', '.join(extra)}")
    return builder(**params) if builder else _from_file(name)
