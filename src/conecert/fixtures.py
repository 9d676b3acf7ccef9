"""Built-in example corpus: small disjunctive conic sets with known facts.

Each fixture bundles a set, one or more inequalities, the verdict the full
report is expected to reach, and closed-form scalars used by the regression
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import ConeProduct, lorentz, nonneg
from .model import (
    DisjunctiveSet,
    Inequality,
    Lattice,
    Problem,
    RhsFamily,
)


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


def _ex2_1() -> Fixture:
    dset = DisjunctiveSet(
        np.array([[-1.0, 0.0, 1.0]]),
        ConeProduct([lorentz(3)]),
        RhsFamily(explicit=(np.array([0.0]), np.array([2.0]))),
    )
    ineq = Inequality(np.array([1.0, 0.0, -1.0]), -2.0, "x1-x3>=-2")
    return Fixture(
        "ex2_1",
        dset,
        (FixtureInequality(ineq, "CertifiedMinimal", {"theta": -2.0}),),
    )


def _ex2_2() -> Fixture:
    dset = DisjunctiveSet(
        np.array([[-1.0, 0.0, 1.0]]),
        ConeProduct([lorentz(3)]),
        RhsFamily(explicit=(np.array([0.0]),)),
    )
    ineq = Inequality(np.array([1.0, 0.0, -1.0]), 0.0, "x1-x3>=0")
    return Fixture(
        "ex2_2",
        dset,
        (FixtureInequality(ineq, "SublinearInconclusiveMinimality", {"theta": 0.0}),),
        notes={"assumption2": "Fails"},
    )


def _ex2_4() -> Fixture:
    dset = DisjunctiveSet(
        np.array([[-1.0, 1.0]]),
        ConeProduct([nonneg(2)]),
        RhsFamily(explicit=(np.array([-2.0]), np.array([1.0]))),
    )
    return Fixture(
        "ex2_4",
        dset,
        (
            FixtureInequality(
                Inequality(np.array([1.0, -1.0]), -2.0, "x1-x2>=-2"),
                "CertifiedMinimal",
                {"theta": -1.0},
            ),
            FixtureInequality(
                Inequality(np.array([1.0, 0.0]), 0.0, "x1>=0"),
                "CertifiedNotMinimal",
                {"theta": 0.0},
            ),
        ),
    )


def _ex2_4_r25() -> Fixture:
    dset = DisjunctiveSet(
        np.array([[-1.0, 1.0]]),
        ConeProduct([nonneg(2)]),
        RhsFamily(explicit=(np.array([-2.0]), np.array([-1.0]))),
    )
    return Fixture(
        "ex2_4_r25",
        dset,
        (
            FixtureInequality(
                Inequality(np.array([1.0, -1.0]), 0.5, "x1-x2>=1/2"),
                "CertifiedMinimal",
                {"theta": 1.0},
            ),
        ),
    )


def _ex4_1() -> Fixture:
    dset = DisjunctiveSet(
        np.array([[1.0, 0.0, 0.0]]),
        ConeProduct([lorentz(3)]),
        RhsFamily(explicit=(np.array([-1.0]), np.array([1.0]))),
    )
    items = [
        FixtureInequality(
            Inequality(np.array([0.0, 1.0, 2.0]), 1.0, "nu"),
            "CertifiedNotMinimal",
            {"inf_sigma": math.sqrt(3.0), "support_at_pm1": math.sqrt(3.0)},
        )
    ]
    for t in (0.0, 1.0, -2.0):
        items.append(
            FixtureInequality(
                Inequality(np.array([0.0, t, math.hypot(t, 1.0)]), 1.0, f"mu_t{t:g}"),
                "CertifiedMinimal",
                {"support_at_pm1": 1.0},
            )
        )
    return Fixture("ex4_1", dset, tuple(items))


def _ex4_2() -> Fixture:
    dset = DisjunctiveSet(
        np.array([[0.0, 1.0, 1.0]]),
        ConeProduct([lorentz(3)]),
        RhsFamily(explicit=(np.array([-1.0]), np.array([1.0]))),
    )
    ineq = Inequality(np.array([0.0, 0.0, 1.0]), 0.5, "x3>=1/2")
    return Fixture(
        "ex4_2",
        dset,
        (FixtureInequality(ineq, "Inconclusive", {"theta": 0.5}),),
        notes={
            "infeasible_rhs": [-1.0],
            "tight_ray": [0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
        },
    )


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
            FixtureInequality(cut, "CertifiedMinimal", {"eta0": eta0, "inf_sigma": eta0}),
            FixtureInequality(equation, None, {"eta0": 0.0}),
        ),
        notes={
            "f": f,
            "M": M,
            "dmu_vertices": [[-0.5, 1.0], [1.5, 1.0], [0.5, 0.0]] if f == 0.25 else None,
            "inf_sigma_argmin": "lattice[0]",
        },
    )


_BUILDERS = {
    "ex2_1": _ex2_1,
    "ex2_2": _ex2_2,
    "ex2_4": _ex2_4,
    "ex2_4_r25": _ex2_4_r25,
    "ex4_1": _ex4_1,
    "ex4_2": _ex4_2,
    "ex4_3": _ex4_3,
    "cmir": _cmir,
}


def names() -> list[str]:
    return sorted(_BUILDERS)


def builtin(name: str, **params) -> Fixture:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from {names()}") from None
    return builder(**params)
