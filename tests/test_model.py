import json
import re

import numpy as np
import pytest

from conecert.analysis import assumption2_check, full_report
from conecert.cones import ConeProduct, lorentz, nonneg
from conecert.model import (
    DisjunctiveSet,
    Inequality,
    Lattice,
    Problem,
    ProblemFormatError,
    RhsFamily,
    Status,
    load_problem,
    save_problem,
)
from conecert.fixtures import builtin


def test_rhs_expansion_order_and_labels():
    fam = RhsFamily(
        explicit=(np.array([5.0]),),
        lattice=Lattice(np.array([0.0]), np.array([1.0]), -2, 2),
    )
    labeled = fam.expand_labeled()
    assert [l for l, _ in labeled] == [
        "explicit[0]",
        "lattice[0]",
        "lattice[1]",
        "lattice[2]",
        "lattice[-1]",
        "lattice[-2]",
    ]


def test_rhs_deduplication():
    fam = RhsFamily(
        explicit=(np.array([1.0]),),
        lattice=Lattice(np.array([0.0]), np.array([1.0]), 0, 3),
    )
    labels = [l for l, _ in fam.expand_labeled()]
    # lattice[1] collides with the explicit entry and is dropped
    assert labels == ["explicit[0]", "lattice[0]", "lattice[2]", "lattice[3]"]


def test_set_validation():
    K = ConeProduct([nonneg(2)])
    with pytest.raises(ValueError):
        DisjunctiveSet(np.array([[1.0, 2.0, 3.0]]), K, RhsFamily(explicit=(np.array([1.0]),)))
    with pytest.raises(ValueError):
        DisjunctiveSet(np.array([[1.0, 2.0]]), K, RhsFamily(explicit=(np.array([1.0, 2.0]),)))
    with pytest.raises(ValueError):
        DisjunctiveSet(np.array([[1.0, 2.0]]), K, RhsFamily(explicit=()))


def test_is_orthant():
    assert builtin("ex2_4").dset.is_orthant()
    assert not builtin("ex2_1").dset.is_orthant()


def test_problem_round_trip():
    for name in ("ex2_1", "cmir", "ex4_3"):
        problem = builtin(name).to_problem()
        back = load_problem(save_problem(problem))
        assert np.array_equal(back.dset.A, problem.dset.A)
        assert back.dset.K.blocks == problem.dset.K.blocks
        assert len(back.inequalities) == len(problem.inequalities)
        for p, q in zip(back.inequalities, problem.inequalities):
            assert p.name == q.name
            assert np.array_equal(p.mu, q.mu)
            assert p.eta0 == q.eta0
        assert [b.tolist() for b in back.dset.B.expand()] == [
            b.tolist() for b in problem.dset.B.expand()
        ]


def test_load_rejects_bad_documents():
    with pytest.raises(ProblemFormatError, match="JSON"):
        load_problem("{nope")
    with pytest.raises(ProblemFormatError, match="format_version"):
        load_problem(json.dumps({"format_version": 99}))
    good = json.loads(save_problem(builtin("ex2_4").to_problem()))
    bad = dict(good)
    bad["cone"] = [{"kind": "psd", "dim": 3}]
    with pytest.raises(ProblemFormatError, match="cone"):
        load_problem(json.dumps(bad))
    bad = json.loads(save_problem(builtin("ex2_4").to_problem()))
    bad["inequalities"][0]["mu"] = [1.0]
    with pytest.raises(ProblemFormatError, match="mu"):
        load_problem(json.dumps(bad))


@pytest.mark.parametrize("path, value, field", [
    (("inequalities", 0, "eta0"), float("nan"), "inequalities[0].eta0"),
    (("inequalities", 0, "eta0"), float("-inf"), "inequalities[0].eta0"),
    (("inequalities", 0, "mu", 1), float("nan"), "inequalities[0].mu"),
    (("rhs", "explicit", 1, 0), float("nan"), "rhs.explicit[1]"),
    (("rhs", "explicit", 0, 0), float("inf"), "rhs.explicit[0]"),
    (("A", "entries", 0), float("nan"), "A.entries"),
    (("cone", 0, "dim"), 3.7, "cone[0].dim"),
    (("cone", 0, "dim"), "3", "cone[0].dim"),
    (("A", "shape"), [3], "A"),
    (("A", "entries"), 5, "A"),
    (("cone",), 5, "cone"),
    (("A", "shape"), [-1, -3], "A.shape"),
    (("A", "shape"), [-3, -1], "A.shape"),
    (("rhs", "explicit"), 5, "rhs.explicit"),
    (("inequalities",), 5, "inequalities"),
])
def test_load_rejects_malformed_values(path, value, field):
    doc = json.loads(save_problem(builtin("ex4_1").to_problem()))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(json.dumps(doc))
    assert str(exc.value).startswith(field + ":")


@pytest.mark.parametrize("base, step", [([0.5, 0.5], [1.0]), ([0.5], [1.0, 0.0])])
def test_lattice_base_and_step_must_have_one_length(base, step):
    # ex4_3 has two rows, so either vector would broadcast to the other
    doc = json.loads(save_problem(builtin("ex4_3").to_problem()))
    doc["rhs"]["lattice"].update(base=base, step=step)
    with pytest.raises(ProblemFormatError, match=(
            rf"^rhs\.lattice: base has {len(base)} entries and step has {len(step)}$")):
        load_problem(json.dumps(doc))


@pytest.mark.parametrize("kind", [3, None, [1, 2], "Lorentz", "psd"])
def test_load_rejects_unknown_cone_kinds(kind):
    doc = json.loads(save_problem(builtin("ex2_4").to_problem()))
    doc["cone"][0]["kind"] = kind
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(json.dumps(doc))
    assert str(exc.value) == f"cone[0].kind: unknown kind {kind!r}"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_model_data_must_be_finite(bad):
    # checked where each object is built, not first inside the solver
    dset = builtin("ex2_1").dset
    with pytest.raises(ProblemFormatError, match="^mu: entries must be finite"):
        full_report(dset, Inequality([bad, 0.0, 0.0], 1.0))
    builds = [
        ("eta0", lambda: Inequality([1.0, 0.0, 0.0], bad)),
        ("base", lambda: Lattice(np.array([bad]), np.array([1.0]), 0, 1)),
        ("step", lambda: Lattice(np.array([0.0]), np.array([bad]), 0, 1)),
        ("explicit[1]", lambda: RhsFamily((np.array([0.0]), np.array([bad])))),
        ("A", lambda: DisjunctiveSet(np.array([[1.0, bad]]), ConeProduct([nonneg(2)]),
                                     RhsFamily((np.array([1.0]),)))),
    ]
    for field, build in builds:
        with pytest.raises(ProblemFormatError, match=rf"^{re.escape(field)}: entries must be finite"):
            build()


def test_load_accepts_integral_float_dim():
    doc = json.loads(save_problem(builtin("cmir").to_problem()))
    doc["cone"][0]["dim"] = float(doc["cone"][0]["dim"])
    doc["rhs"]["lattice"]["kmin"] = float(doc["rhs"]["lattice"]["kmin"])
    problem = load_problem(json.dumps(doc))
    assert problem.dset.K.blocks == builtin("cmir").dset.K.blocks
    assert problem.dset.B.lattice.k_min == builtin("cmir").dset.B.lattice.k_min
    doc["rhs"]["lattice"]["step"][0] = float("nan")
    with pytest.raises(ProblemFormatError, match=r"^rhs\.lattice\.step:"):
        load_problem(json.dumps(doc))


def test_assumption2_interior_witness():
    fx = builtin("ex2_1")
    status, witness, margin = assumption2_check(fx.dset)
    assert status is Status.HOLDS
    assert margin > 1e-3
    assert fx.dset.K.interior_margin(witness) > 1e-6


def test_assumption2_fails_on_flat_set():
    fx = builtin("ex2_2")
    status, witness, margin = assumption2_check(fx.dset)
    assert status is Status.FAILS
    assert margin <= 1e-7


def test_assumption2_skips_infeasible_branches():
    # ex4_2: the branch x2 + x3 = -1 misses L3, the branch x2 + x3 = 1 does not
    fx = builtin("ex4_2")
    status, witness, margin = assumption2_check(fx.dset)
    assert status is Status.HOLDS
    assert fx.dset.K.interior_margin(witness) > 1e-6
    assert np.allclose(fx.dset.A @ witness, [1.0], atol=1e-6)

    dset = DisjunctiveSet(
        np.array([[0.0, 0.0, 1.0]]),
        ConeProduct([lorentz(3)]),
        RhsFamily(explicit=(np.array([-1.0]), np.array([-2.0]))),
    )
    assert assumption2_check(dset) == (Status.FAILS, None, -np.inf)


def test_readme_problem_file_loads():
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    problem = load_problem(block)
    assert problem.dset.A.tolist() == [[-1.0, 0.0, 1.0]]
    assert [b.tolist() for b in problem.dset.B.expand()] == [[0.0], [2.0]]
    assert [q.name for q in problem.inequalities] == ["cut"]
