import numpy as np
import pytest

import conecert.fixtures as fixtures
from conecert.analysis import (
    AnalysisOptions,
    SupportHandle,
    full_report,
    theta,
    tight_extreme_ray_search,
)
from conecert.model import load_problem, save_problem


def test_names_and_unknown():
    assert "cmir" in fixtures.names()
    with pytest.raises(ValueError):
        fixtures.builtin("nope")


def test_parameter_validation():
    with pytest.raises(ValueError):
        fixtures.builtin("cmir", f=0.0)
    with pytest.raises(ValueError):
        fixtures.builtin("cmir", f=0.5, M=1)
    with pytest.raises(ValueError):
        fixtures.builtin("ex4_3", M=0)


def test_parameters_only_where_a_family_takes_them():
    with pytest.raises(ValueError, match="ex2_1 takes no parameter M"):
        fixtures.builtin("ex2_1", M=3)
    with pytest.raises(ValueError, match="ex4_3 takes no parameter f"):
        fixtures.builtin("ex4_3", f=0.5, M=3)
    assert fixtures.builtin("ex4_3", M=3).dset.B.lattice.k_max == 3


def test_facts_and_file_must_name_the_same_inequalities(monkeypatch):
    facts, notes = fixtures._FACTS["ex2_4"]
    for renamed in ({"x1-x2>=-2": facts["x1-x2>=-2"], "x1>=1": facts["x1>=0"]},
                    {"x1-x2>=-2": facts["x1-x2>=-2"]},
                    dict(reversed(facts.items()))):
        monkeypatch.setitem(fixtures._FACTS, "ex2_4", (renamed, notes))
        with pytest.raises(ValueError, match=r"fixture ex2_4: the table names .* ex2_4\.json names"):
            fixtures.builtin("ex2_4")


def test_fixtures_do_not_share_their_facts():
    fx = fixtures.builtin("ex4_2")
    fx.notes["tight_ray"].append(1.0)
    fx.inequalities[0].scalars["theta"] = 7.0
    again = fixtures.builtin("ex4_2")
    assert len(again.notes["tight_ray"]) == 3
    assert again.inequalities[0].scalars["theta"] == 0.5


def test_every_fixture_round_trips():
    for name in fixtures.names():
        fx = fixtures.builtin(name)
        back = load_problem(save_problem(fx.to_problem()))
        assert np.array_equal(back.dset.A, fx.dset.A)
        assert back.dset.K.blocks == fx.dset.K.blocks
        assert len(back.inequalities) == len(fx.inequalities)


def test_data_files_match_builtins():
    from importlib import resources

    for name in fixtures.names():
        text = (resources.files("conecert") / "data" / f"{name}.json").read_text()
        problem = load_problem(text)
        fx = fixtures.builtin(name)
        assert np.array_equal(problem.dset.A, fx.dset.A)
        assert len(problem.inequalities) == len(fx.inequalities)
        assert text == save_problem(fx.to_problem()), name


def test_expected_verdicts():
    for name in fixtures.names():
        fx = fixtures.builtin(name)
        for fi in fx.inequalities:
            if fi.expected_verdict is None:
                continue
            rep = full_report(fx.dset, fi.inequality)
            assert rep.final_verdict == fi.expected_verdict, (
                name,
                fi.inequality.name,
                rep.final_verdict,
            )


def test_expected_scalars():
    for name in fixtures.names():
        fx = fixtures.builtin(name)
        for fi in fx.inequalities:
            th = theta(fx.dset, fi.inequality.mu)
            if "theta" in fi.scalars:
                assert th.value == pytest.approx(fi.scalars["theta"], abs=1e-6)
            handle = SupportHandle(fx.dset, fi.inequality.mu, AnalysisOptions(samples=64))
            if "inf_sigma" in fi.scalars:
                assert th.inf_sigma == pytest.approx(fi.scalars["inf_sigma"], abs=1e-6)
                if "inf_sigma_argmin" in fx.notes:
                    assert th.sigma_argmin == fx.notes["inf_sigma_argmin"]
            if "support_at_pm1" in fi.scalars:
                for z in (1.0, -1.0):
                    assert handle.eval([z]) == pytest.approx(
                        fi.scalars["support_at_pm1"], abs=1e-6
                    )
            if "tight_ray" in fx.notes:
                rays, _ = tight_extreme_ray_search(handle)
                assert len(rays) == 1
                assert np.allclose(rays[0].z, fx.notes["tight_ray"], atol=1e-6)


def test_cmir_parameterization():
    for f in (0.3, 0.7):
        fx = fixtures.builtin("cmir", f=f, M=6)
        cut = fx.inequalities[0]
        assert cut.scalars["theta"] == pytest.approx(f * (2 - 2 * f))
        th_mu = cut.inequality.mu
        assert th_mu[0] == pytest.approx(2 - 2 * f)
        assert th_mu[3] == pytest.approx(2 * f - 1)
